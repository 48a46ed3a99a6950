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
from riskeig.model import sum_squares


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


def test_ou_quadratic_coefficients_round_trip():
    """Catalog drift/cost at sample points match the closed forms exactly."""
    m = builtin("ou_quadratic")
    x = np.array([[-2.0], [0.3], [1.7]])
    np.testing.assert_array_equal(m.drift(x, 0.0), -x)
    np.testing.assert_array_equal(m.cost(x, 0.0), 0.375 * x[:, 0] ** 2)


def test_lq_clamped_coefficients_round_trip():
    m = builtin("lq_clamped")
    x = np.array([[1.5], [-0.25]])
    for u in (-5.0, 0.0, 2.5):
        np.testing.assert_allclose(m.drift(x, u), -x + u, rtol=0, atol=0)
        np.testing.assert_allclose(
            m.cost(x, u), 0.375 * x[:, 0] ** 2 + 0.5 * u * u, rtol=0, atol=0
        )
    assert m.actions[0] == -5.0 and m.actions[-1] == 5.0
    assert m.actions.size == 101


def test_double_well_coefficients_round_trip():
    m = builtin("double_well")
    x = np.array([[1.5], [-0.5], [0.0]])
    np.testing.assert_array_equal(m.drift(x, 0.0), -(x**3 - x))
    np.testing.assert_array_equal(m.cost(x, 0.0), 0.5 * x[:, 0] ** 2)


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
        "actions": {"interval": [-2.0, 2.0], "count": 5},
    })
    np.testing.assert_allclose(m.actions, [-2.0, -1.0, 0.0, 1.0, 2.0])


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
