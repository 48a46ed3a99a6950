"""Model catalog, structural checks, and config construction."""

import numpy as np
import pytest

import oracles
from riskeig import (
    CatalogError,
    InvalidModelError,
    Model,
    builtin,
    check_coefficient_bounds,
    check_near_monotone,
    model_from_config,
)
from riskeig.model import ActionInterval, sum_squares


def _uncontrolled(drift, cost, dim=1, sigma=None):
    sig = sigma if sigma is not None else (lambda x: np.eye(dim))
    return Model(dim, drift, sig, cost, np.array([0.0]))


# ---------------------------------------------------------------- near-monotone

def test_near_monotone_quadratic_cost():
    """c = x^2 against level 1 + 0.5: sublevel set ends at sqrt(1.5)."""
    m = _uncontrolled(lambda x, u: -x, lambda x, u: np.sum(x * x, axis=-1))
    rep = check_near_monotone(m, 1.0, 0.5, scan_radius=10.0, scan_step=0.01)
    assert rep.holds
    assert abs(rep.sublevel_radius - np.sqrt(1.5)) <= rep.scan_step


def test_near_monotone_constant_cost_fails():
    m = _uncontrolled(lambda x, u: -x, lambda x, u: np.zeros(len(x)))
    rep = check_near_monotone(m, 1.0, 0.5, scan_radius=10.0, scan_step=0.1)
    assert not rep.holds
    assert rep.sublevel_radius == np.inf


def test_near_monotone_min_over_actions():
    """c = x^2 + u^2 over u in {-1, 0, 1}: the min sits at u=0."""
    m = Model(
        1,
        lambda x, u: -x,
        lambda x: np.eye(1),
        lambda x, u: np.sum(x * x, axis=-1) + u * u,
        np.array([-1.0, 0.0, 1.0]),
    )
    rep = check_near_monotone(m, 2.0, 0.1, scan_radius=10.0, scan_step=0.01)
    assert rep.holds
    assert abs(rep.sublevel_radius - np.sqrt(2.1)) <= rep.scan_step


def test_near_monotone_radius_monotone_in_epsilon():
    m = builtin("ou_quadratic")
    rng = np.random.default_rng(7)
    for _ in range(10):
        e1, e2 = np.sort(rng.uniform(0.05, 2.0, size=2))
        r1 = check_near_monotone(m, 1.0, e1, 10.0, 0.05).sublevel_radius
        r2 = check_near_monotone(m, 1.0, e2, 10.0, 0.05).sublevel_radius
        assert r1 <= r2


def test_near_monotone_rejects_bad_epsilon():
    m = builtin("ou_quadratic")
    with pytest.raises(ValueError):
        check_near_monotone(m, 1.0, 0.0, 10.0, 0.1)


def test_near_monotone_nonfinite_cost_rejected():
    m = _uncontrolled(lambda x, u: -x, lambda x, u: np.full(len(x), np.nan))
    with pytest.raises(InvalidModelError):
        check_near_monotone(m, 1.0, 0.5, 5.0, 0.1)


# ----------------------------------------------------------- coefficient bounds

def test_coefficient_bounds_tanh_model():
    """Bounded drift with decaying radial ratio passes the regime predicate."""
    rep = check_coefficient_bounds(builtin("bounded_nm"), scan_radius=10.0, scan_step=0.1)
    assert rep.bounded_coeffs
    ratios = [row[1] for row in rep.radial_drift_decay]
    # -tanh(x) + 0.1u points inward for |x| > artanh(0.1): outer shells are 0
    assert ratios[-1] == 0.0
    assert rep.predicate()


def test_coefficient_bounds_ou_unbounded():
    rep = check_coefficient_bounds(builtin("ou_quadratic"), scan_radius=10.0, scan_step=0.1)
    assert not rep.bounded_coeffs
    assert not rep.predicate()


def test_coefficient_bounds_zero_drift():
    m = _uncontrolled(lambda x, u: np.zeros_like(x), lambda x, u: np.zeros(len(x)))
    rep = check_coefficient_bounds(m, scan_radius=5.0, scan_step=0.1)
    assert rep.bounded_coeffs
    assert all(row[1] == 0.0 for row in rep.radial_drift_decay)


@pytest.mark.parametrize("dim", [1, 2])
def test_coefficient_scan_reports_pointwise_sigma_maxima(dim):
    """A state-dependent sigma is scanned point by point, not read off at one point."""
    m = _uncontrolled(lambda x, u: -x, lambda x, u: sum_squares(x), dim=dim,
                      sigma=oracles.pointwise_sigma)
    rep = check_coefficient_bounds(m, scan_radius=4.0, scan_step=0.5)
    s2, s4 = 1.0 + 0.5 * np.tanh(2.0) ** 2, 1.0 + 0.5 * np.tanh(4.0) ** 2
    inner, outer = s2, s4
    if dim == 2:   # sigma's Frobenius norm peaks at (2, 0) inside, at the corner (4, 4) outside
        inner, outer = np.hypot(s2, 1.0), np.sqrt(s4**2 + (0.2 * np.tanh(4.0)) ** 2 + 1.0)
    np.testing.assert_allclose(rep.sigma_sup_inner, inner, rtol=1e-14)
    np.testing.assert_allclose(rep.sigma_sup_outer, outer, rtol=1e-14)


# ---------------------------------------------------------------------- catalog

def test_coefficients_broadcast_to_the_point_convention():
    """A constant drift or cost broadcasts to fresh (n, dim) / (n,) rows; a shaped one passes."""
    x = np.linspace(-1.0, 1.0, 5)[:, None]
    flat = _uncontrolled(lambda x, u: 0.5, lambda x, u: 2.0)
    np.testing.assert_array_equal(flat.drift_at(x, 0.0), np.full((5, 1), 0.5))
    c = flat.cost_at(x, 0.0)
    np.testing.assert_array_equal(c, np.full(5, 2.0))
    assert c.flags.writeable
    shaped = builtin("ou_quadratic")
    np.testing.assert_array_equal(shaped.cost_at(x, 0.0), 0.375 * x[:, 0] ** 2)
    blows_up = _uncontrolled(lambda x, u: -x, lambda x, u: np.where(x[:, 0] > 0, np.inf, 0.0))
    with pytest.raises(InvalidModelError, match="non-finite cost"):
        blows_up.cost_at(x, 0.0)


def test_builtin_names_load():
    for name in ("ou_quadratic", "lq_clamped", "double_well", "bounded_nm"):
        m = builtin(name)
        assert m.label == name
        assert m.actions.size >= 1


def test_builtin_unknown_name():
    with pytest.raises(CatalogError):
        builtin("no_such_model")


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# the sample points include 0.0, where a zero control term added to -beta * x
# would turn the drift's -0.0 into +0.0
X = np.array([[-2.0], [0.0], [0.3], [1.7]])
R2 = X[:, 0] * X[:, 0]


def test_ou_quadratic_coefficients_round_trip():
    """Catalog drift/cost at sample points have the bits of the closed forms."""
    m = builtin("ou_quadratic")
    np.testing.assert_array_equal(_bits(m.drift(X, 0.0)), _bits(-1.0 * X))
    np.testing.assert_array_equal(_bits(m.cost(X, 0.0)), _bits(0.375 * R2))


def test_lq_clamped_coefficients_round_trip():
    m = builtin("lq_clamped")
    for u in (-5.0, 0.0, 2.5):
        np.testing.assert_array_equal(_bits(m.drift(X, u)), _bits(-1.0 * X + u))
        np.testing.assert_array_equal(_bits(m.cost(X, u)), _bits(0.375 * R2 + 0.5 * 1.0 * u**2))
    np.testing.assert_array_equal(_bits(m.actions), _bits([-5.0, 5.0]))
    assert m.interval == ActionInterval(-5.0, 5.0, gain=1.0, weight=0.5)


def test_double_well_coefficients_round_trip():
    m = builtin("double_well")
    np.testing.assert_array_equal(_bits(m.drift(X, 0.0)), _bits(-(X * X * X - X)))
    np.testing.assert_array_equal(_bits(m.cost(X, 0.0)), _bits(0.5 * R2))


def test_bounded_nm_coefficients_round_trip():
    m = builtin("bounded_nm")
    for u in (-1.0, 0.0, 0.3):
        np.testing.assert_array_equal(_bits(m.drift(X, u)), _bits(-np.tanh(X) + 0.1 * u))
        np.testing.assert_array_equal(_bits(m.cost(X, u)), _bits(R2 / (1.0 + R2) + 0.05 * u**2))
    np.testing.assert_array_equal(_bits(m.actions), _bits([-1.0, 1.0]))
    assert m.interval == ActionInterval(-1.0, 1.0, gain=0.1, weight=0.05)


# each builtin's config spelling, as the README shows it
SPELLED = {
    "ou_quadratic": {"dim": 1, "drift": {"family": "ou", "beta": 1.0},
                     "cost": {"family": "quadratic", "kappa": 0.375}},
    "lq_clamped": {"dim": 1, "drift": {"family": "affine", "beta": 1.0},
                   "cost": {"family": "quadratic", "kappa": 0.375, "rho": 1.0},
                   "actions": {"interval": [-5.0, 5.0]}},
    "double_well": {"dim": 1, "drift": {"family": "double_well"},
                    "cost": {"family": "quadratic", "kappa": 0.5}},
    "bounded_nm": {"dim": 1, "drift": {"family": "tanh", "control_gain": 0.1},
                   "cost": {"family": "saturating", "control_weight": 0.05},
                   "actions": {"interval": [-1.0, 1.0]}},
}


@pytest.mark.parametrize("name", sorted(SPELLED))
def test_builtin_is_its_config_spelling(name):
    """A builtin and its spelled-out config evaluate to the same bits."""
    m, spelled = builtin(name), model_from_config(SPELLED[name])
    np.testing.assert_array_equal(_bits(m.actions), _bits(spelled.actions))
    assert m.interval == spelled.interval
    for u in (*m.actions, 0.3):
        np.testing.assert_array_equal(_bits(m.drift_at(X, u)), _bits(spelled.drift_at(X, u)))
        np.testing.assert_array_equal(_bits(m.cost_at(X, u)), _bits(spelled.cost_at(X, u)))
    np.testing.assert_array_equal(m.covariance(X), spelled.covariance(X))


@pytest.mark.parametrize("dim", [1, 2])
def test_sum_squares_is_the_reductions_bitwise(dim):
    """Squared columns added in order have the bits of np.sum and, rooted, np.linalg.norm."""
    special = np.array([0.0, -0.0, 1e-200, -1e-200, 1e200, -1e200, np.inf, -np.inf, np.nan, 1.5])
    grid = np.stack([g.ravel() for g in np.meshgrid(*[special] * dim, indexing="ij")], axis=1)
    rng = np.random.default_rng(11)
    scaled = rng.standard_normal((500, dim)) * 10.0 ** rng.integers(-160, 160, (500, dim))
    x = np.concatenate([grid, scaled])
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        got = sum_squares(x)
        want_sum = np.sum(x * x, axis=-1)
        want_norm = np.linalg.norm(x, axis=1)
    np.testing.assert_array_equal(got.view(np.int64), want_sum.view(np.int64))
    np.testing.assert_array_equal(np.sqrt(got).view(np.int64), want_norm.view(np.int64))


def test_builtin_ellipticity_floor():
    x = np.linspace(-8.0, 8.0, 101)[:, None]
    for name in ("ou_quadratic", "lq_clamped", "double_well", "bounded_nm"):
        a = builtin(name).covariance(x)
        assert np.min(np.diagonal(a, axis1=1, axis2=2)) >= 1e-12


def test_degenerate_diffusion_rejected():
    m = _uncontrolled(lambda x, u: -x, lambda x, u: np.zeros(len(x)),
                      sigma=lambda x: np.zeros((1, 1)))
    with pytest.raises(InvalidModelError):
        m.covariance(np.array([[0.0]]))


def test_empty_action_set_rejected():
    with pytest.raises(InvalidModelError):
        Model(1, lambda x, u: -x, lambda x: np.eye(1),
              lambda x, u: np.zeros(len(x)), np.array([]))


# ----------------------------------------------------------------- JSON configs

def test_model_from_config_registry_form():
    m = model_from_config({
        "dim": 1,
        "drift": {"family": "ou", "beta": 2.0},
        "cost": {"family": "quadratic", "kappa": 0.5},
        "sigma": [[1.0]],
        "actions": [0.0],
    })
    x = np.array([[1.0], [-3.0]])
    np.testing.assert_array_equal(m.drift(x, 0.0), -2.0 * x)
    np.testing.assert_array_equal(m.cost(x, 0.0), 0.5 * x[:, 0] ** 2)


def test_model_from_config_builtin_form():
    m = model_from_config({"builtin": "ou_quadratic", "params": {"beta": 2.0}})
    np.testing.assert_array_equal(m.drift(np.array([[1.0]]), 0.0), [[-2.0]])


def test_model_from_config_action_interval():
    m = model_from_config({
        "dim": 1,
        "drift": {"family": "affine"},
        "cost": {"family": "quadratic", "kappa": 1.0, "rho": 1.0},
        "sigma": [[1.0]],
        "actions": {"interval": [-2.0, 2.0]},
    })
    np.testing.assert_array_equal(m.actions, [-2.0, 2.0])
    assert m.interval == ActionInterval(-2.0, 2.0, gain=1.0, weight=0.5)
    x = np.array([[1.5], [-3.0]])
    # the whole interval: its cost is least at u = 0, which no list of its ends holds
    np.testing.assert_array_equal(m.min_cost(x), x[:, 0] ** 2)


def test_model_from_config_bad_family():
    with pytest.raises(CatalogError):
        model_from_config({
            "dim": 1,
            "drift": {"family": "pendulum"},
            "cost": {"family": "quadratic"},
        })


@pytest.mark.parametrize("cfg", [
    3,
    ["builtin"],
    {"dim": 1, "drift": "ou", "cost": {"family": "quadratic"}},
    {"dim": 1, "drift": {"family": "ou"}, "cost": ["quadratic"]},
])
def test_model_from_config_needs_objects(cfg):
    with pytest.raises(CatalogError, match="must be an object"):
        model_from_config(cfg)


_ONE_D = {"dim": 1, "drift": {"family": "ou", "control_gain": 1.0}, "cost": {"family": "quadratic"}}


@pytest.mark.parametrize("patch, field", [
    ({"actions": [[0.0, 1.0]]}, "actions"),
    ({"actions": [float("inf")]}, "actions"),
    ({"actions": 0.5}, "actions"),
    ({"actions": {"interval": [True, 1]}}, "actions interval"),
    ({"actions": {"interval": [float("nan"), 1]}}, "actions interval"),
    ({"actions": {"interval": [float("-inf"), 1]}}, "actions interval"),
    ({"actions": {"interval": 5}}, "actions interval"),
    ({"actions": {"interval": [-1, 0, 1]}}, "actions interval"),
    ({"dim": True}, "dim"),
    ({"dim": 1.9}, "dim"),
    ({"dim": "1"}, "dim"),
    ({"dim": 3}, "dim"),
    ({"sigma": [[True]]}, "sigma"),
    ({"sigma": [[1.0, 0.0]]}, "sigma"),
    ({"sigma": [[float("nan")]]}, "sigma"),
    ({"drift": {"family": "ou", "beta": "2"}}, "drift beta"),
    ({"drift": {"family": "tanh", "control_gain": True}}, "drift control_gain"),
    ({"cost": {"family": "quadratic", "kappa": float("inf")}}, "cost kappa"),
    ({"cost": {"family": "saturating", "scale": None}}, "cost scale"),
    ({"drift": {"family": "ou", "beta": 10**400}}, "drift beta"),   # an int past float range
    ({"sigma": [[10**400]]}, "sigma"),
    # a diffusion below the ellipticity floor, or a negative cost level, which
    # puts the cost below 0 at every node off the origin
    ({"sigma": [[0.0]]}, "sigma"),
    ({"sigma": [[1e-7]]}, "sigma"),
    ({"dim": 2, "sigma": [[1.0, 0.0], [0.0, 0.0]]}, "sigma"),
    ({"cost": {"family": "quadratic", "kappa": -0.5}}, "cost kappa"),
    ({"cost": {"family": "saturating", "scale": -1.0}}, "cost scale"),
    ({"cost": {"family": "constant", "value": -1.0}}, "cost value"),
])
def test_model_from_config_rejects_malformed_fields(patch, field):
    """Each malformed field raises CatalogError naming it, before any model exists."""
    with pytest.raises(CatalogError, match=f"^model {field} must be"):
        model_from_config({**_ONE_D, **patch})


@pytest.mark.parametrize("s", [1e-7, 1e-6])
def test_config_sigma_is_refused_exactly_where_the_covariance_is(s):
    """The config check is the covariance's test; sigma = 1e-6 gives a = 1e-12, the floor, which passes."""
    x = np.array([[0.5]])
    direct = Model(1, lambda x, u: -x, lambda x: np.array([[s]]),
                   lambda x, u: np.zeros(len(x)), np.array([0.0]))
    if s**2 < 1e-12:
        with pytest.raises(InvalidModelError, match="diffusion degenerate"):
            direct.covariance(x)
        with pytest.raises(CatalogError, match="^model sigma must be nondegenerate"):
            model_from_config({**_ONE_D, "sigma": [[s]]})
    else:
        direct.covariance(x)
        assert model_from_config({**_ONE_D, "sigma": [[s]]}).covariance(x)[0, 0, 0] == s**2


@pytest.mark.parametrize("cfg, message", [
    ({"builtin": "lq_clamped", "params": {"n_actions": 2.5}}, "builtin parameter 'n_actions' is retired"),
    ({"builtin": "bounded_nm", "params": {"n_actions": 21}}, "builtin parameter 'n_actions' is retired"),
    ({"builtin": "lq_clamped", "params": {"clamp": float("nan")}}, "actions interval must be"),
    ({"builtin": "ou_quadratic", "params": [2.0]}, "params must be an object"),
    ({"builtin": ["ou_quadratic"]}, "unknown builtin model"),
    ({"builtin": "lq_clamped", "params": {"n_action": 11}},
     r"unknown builtin 'lq_clamped' parameter 'n_action'; "
     r"allowed: \['beta', 'clamp', 'kappa', 'rho'\]"),
])
def test_bad_builtin_parameters_are_catalog_errors(cfg, message):
    with pytest.raises(CatalogError, match=message):
        model_from_config(cfg)


@pytest.mark.parametrize("cfg, message", [
    ({**_ONE_D, "cost": {"family": "quadratic", "kapa": 0.375}},
     "unknown cost family 'quadratic' key 'kapa'"),
    ({**_ONE_D, "drift": {"family": "double_well", "beta": 2.0}},
     "unknown drift family 'double_well' key 'beta'"),
    ({**_ONE_D, "sigmaa": [[2.0]]}, "unknown model key 'sigmaa'"),
    ({"builtin": "ou_quadratic", "dim": 2}, "unknown model key 'dim'"),
    ({**_ONE_D, "actions": {"interval": [-1, 1], "step": 1}},
     "unknown actions key 'step'"),
])
def test_unread_model_keys_are_catalog_errors(cfg, message):
    """A key nothing reads would silently leave its default in place."""
    with pytest.raises(CatalogError, match=f"^{message}"):
        model_from_config(cfg)


@pytest.mark.parametrize("actions", [
    {"interval": [-1, 1], "count": 5},
    {"interval": [-1, 1], "count": 1},
    {"count": 3},
])
def test_action_count_is_retired(actions):
    """A count over an interval no longer means a grid of it: the interval is the compact set."""
    with pytest.raises(CatalogError, match="^actions 'count' is retired: .*list the actions explicitly"):
        model_from_config({**_ONE_D, "actions": actions})


@pytest.mark.parametrize("patch, message", [
    ({"actions": {"interval": [1.0, -1.0]}}, "needs lo <= hi"),
    ({"cost": {"family": "quadratic", "rho": -1.0}}, "needs a control weight >= 0"),
])
def test_action_interval_needs_an_ordered_convex_form(patch, message):
    with pytest.raises(InvalidModelError, match=message):
        model_from_config({**_ONE_D, "actions": {"interval": [-1.0, 1.0]}, **patch})


def _listed(name: str, k: int) -> Model:
    """A builtin with its interval replaced by a list of k equally spaced actions."""
    m = builtin(name)
    return Model(m.dim, m.drift, m.diffusion, m.cost, np.linspace(*m.actions, k), m.label)


@pytest.mark.parametrize("name, k", [("lq_clamped", 101), ("bounded_nm", 21)])
def test_interval_scans_read_its_ends_and_the_cheapest_action(monkeypatch, name, k):
    """The coefficient scan and min_cost give the numbers of a list that holds 0 and the
    ends, from two drift calls and one cost call."""
    m, listed = builtin(name), _listed(name, k)
    want = check_coefficient_bounds(listed, scan_radius=10.0, scan_step=0.1)
    x = np.linspace(-10.0, 10.0, 201)
    want_cost = listed.min_cost(x)
    calls = {"drift_at": 0, "cost_at": 0}
    for meth in calls:
        real = getattr(Model, meth)
        monkeypatch.setattr(Model, meth, lambda self, *a, _m=meth, _f=real: calls.__setitem__(
            _m, calls[_m] + 1) or _f(self, *a))
    assert check_coefficient_bounds(m, scan_radius=10.0, scan_step=0.1) == want
    np.testing.assert_array_equal(m.min_cost(x), want_cost)
    assert calls == {"drift_at": 2, "cost_at": 1}


def test_model_from_config_bad_sigma_shape():
    with pytest.raises(CatalogError):
        model_from_config({
            "dim": 1,
            "drift": {"family": "ou"},
            "cost": {"family": "quadratic"},
            "sigma": 1.0,
        })


# ------------------------------------------------------------- oracle agreement

def test_ou_parameters_hit_round_benchmark_numbers():
    """The default catalog parameters are chosen so the rate lands on 0.25."""
    a, lam = oracles.ou_quadratic_rate(1.0, 0.375)
    assert lam == 0.25
    assert oracles.ou_twisted_slope(1.0, 0.375) == -0.5
